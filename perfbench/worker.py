"""Fresh-process side of the benchmark; `run.py` starts it.

    worker.py selfcheck SEED TRACE OUT      direct == spectral (+ tracer check)
    worker.py run NAME SEED SECONDS TRACE WORKDIR OUT
    worker.py record NAME SEED WORKDIR OUT  reference digests and SNR

spikecodec is driven only through `spikecodec.cli.main` and the library
functions README documents (plus `read_input` and `write_events_csv` for the
streaming loop). Every name is looked up at call time, so a tracer installed
between operations sees every call.
"""

import dataclasses
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback

import spikecodec
import spikecodec.cli
import spikecodec.pipeline
from calibrate import HostSpeed
from tracing import Tracer, check_threaded
from workloads import (
    BY_NAME, KERNELS, RATE, Workload, equivalence_input, make_inputs,
    snr_db, snr_parts, write_wav,
)


# fresh-process set-up probes per untraced run, spread evenly over its time
SETUP_PROBES = 12


def setup_probe(w: Workload) -> float:
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    out = subprocess.run(
        [sys.executable, probe, str(w.width), "1" if w.backend == "spectral" else "0"],
        check=True, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    return float(out.stdout)


def recorded(name: str, seed: int) -> dict | None:
    """The digests and SNR recorded for this workload and seed, if any."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path) as fh:
        return json.load(fh).get(name, {}).get(str(seed))


def call_cli(argv: list[str]) -> int:
    """Exit code of one CLI command; a traceback becomes exit code 1 and is
    logged to stderr, never raised."""
    try:
        return spikecodec.cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return 1


def digest(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return ""


# segments of the streaming loop between two host-speed measurements
CHUNK = 16
# seconds of repeated decodes between two host-speed measurements
DECODE_PIECE_S = 0.2


class Stopwatch:
    """Wall and CPU time of a step made of timed pieces, as read and scaled
    by the host-speed factor measured right after each piece. The reference
    work that measures it runs between pieces, off the clock."""

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self.wall = self.cpu = self.wall_s = self.cpu_s = 0.0

    def start(self) -> None:
        self.wall0, self.cpu0 = time.perf_counter(), time.process_time()

    def stop(self) -> float:
        """End a piece; returns its wall-time host-speed factor."""
        wall = time.perf_counter() - self.wall0
        cpu = time.process_time() - self.cpu0
        factor, cpu_factor = self.speed.scale()
        self.wall += wall
        self.cpu += cpu
        self.wall_s += wall * factor
        self.cpu_s += cpu * cpu_factor
        return factor


def cli_encode(w: Workload, wav: str, events: str, watch: Stopwatch):
    watch.start()
    rc = call_cli(["encode", wav, "-o", events, "--output-format", "csv",
                   "--with-raw-intensity", *w.codec_flags()])
    factor = watch.stop()
    # the CLI writes every segment's events when the whole file is done
    return rc, [watch.wall], [watch.wall * factor]


def stream_encode(w: Workload, wav: str, events: str, tracer: Tracer,
                  watch: Stopwatch):
    """One segment at a time: encode_segment -> emit_stream -> append to the
    event CSV. Returns the exit code and each segment's latency, from the
    segment being handed in to its events being written, as read and
    scaled. The host speed is measured after every CHUNK segments."""
    latencies, scaled, chunk = [], [], []
    watch.start()
    try:
        samples, _ = spikecodec.pipeline.read_input(
            spikecodec.pipeline.RunConfig(input_path=wav, input_format="wav16")
        )
        d = spikecodec.build_dictionary(spikecodec.DictionaryConfig(
            num_kernels=KERNELS, sample_rate=float(RATE), freq_lo=20.0,
            freq_hi=8000.0, kernel_len=w.width,
        ))
        table = spikecodec.build_channel_table(KERNELS)
        cfg = spikecodec.EncoderConfig(
            max_codes=w.k, halt_threshold=0.0, backend=w.backend,
            arithmetic="float", select="abs", width=w.width,
        )
        with open(events, "w", newline="\n") as fh:
            for i in range(len(samples) // w.width):
                start = time.perf_counter()
                seg = spikecodec.Segment(
                    samples[i * w.width : (i + 1) * w.width], i, w.width
                )
                codes = spikecodec.encode_segment(seg, d, None, cfg)
                evs = spikecodec.emit_stream([codes], table, w.width, "log")
                with tracer.span("pipeline.write_events"):
                    buf = io.StringIO()
                    spikecodec.pipeline.write_events_csv(evs, buf, with_raw=True)
                    text = buf.getvalue()
                    if i:  # the header goes out once, with the first segment
                        text = text.split("\n", 1)[1]
                    fh.write(text)
                    fh.flush()
                chunk.append(time.perf_counter() - start)
                tracer.count("pipeline.write_events.bytes", len(text))
                if len(chunk) == CHUNK:
                    factor = watch.stop()
                    latencies += chunk
                    scaled += [t * factor for t in chunk]
                    chunk = []
                    watch.start()
    except Exception:
        traceback.print_exc()
        watch.stop()
        return 1, latencies + chunk, scaled + chunk
    factor = watch.stop()
    return 0, latencies + chunk, scaled + [t * factor for t in chunk]


def round_trip(w: Workload, wav: str, n: int, work: str, tracer: Tracer,
               repeat_decode: bool, speed: HostSpeed) -> dict:
    """Encode one input file, then decode it, timing each step. With
    `repeat_decode` the short decode step repeats until it has taken a
    tenth of the encode time (at least 5, at most 100 decodes), so its
    median has enough samples."""
    events = os.path.join(work, "events.csv")
    decoded = os.path.join(work, "decoded.f32")
    for stale in (events, decoded):
        if os.path.exists(stale):
            os.remove(stale)
    enc = Stopwatch(speed)
    if w.path == "stream":
        rc_enc, latencies, latencies_s = stream_encode(w, wav, events, tracer, enc)
    else:
        rc_enc, latencies, latencies_s = cli_encode(w, wav, events, enc)
    rcs, dec_walls, dec_walls_s, piece, outputs = [rc_enc], [], [], [], set()
    dec = Stopwatch(speed)
    dec.start()
    while not dec_walls or repeat_decode and (
        len(dec_walls) < 5
        or sum(dec_walls) < 0.1 * enc.wall and len(dec_walls) < 100
    ):
        start = time.perf_counter()
        rcs.append(call_cli(["decode", events, "-o", decoded, "--length", str(n),
                             *w.codec_flags()]))
        dec_walls.append(time.perf_counter() - start)
        piece.append(dec_walls[-1])
        if sum(piece) >= DECODE_PIECE_S:
            factor = dec.stop()
            dec_walls_s += [t * factor for t in piece]
            piece = []
            dec.start()
        outputs.add(digest(decoded))
    factor = dec.stop()
    dec_walls_s += [t * factor for t in piece]
    return {
        "enc_wall": enc.wall,
        "enc_cpu": enc.cpu,
        "enc_wall_s": enc.wall_s,
        "enc_cpu_s": enc.cpu_s,
        "scale": enc.wall_s / enc.wall,
        "dec_walls": dec_walls,
        "dec_walls_s": dec_walls_s,
        "latencies": latencies,
        "latencies_s": latencies_s,
        "ok_exit": all(rc == 0 for rc in rcs) and len(outputs) == 1,
        "digest": digest(events),
        "decoded": decoded,
    }


def run(w: Workload, seed: int, seconds: float, trace: bool, work: str,
        reference: dict | None, probes: int = SETUP_PROBES) -> dict:
    pcms = make_inputs(w, seed)
    wavs = []
    for i, pcm in enumerate(pcms):
        wavs.append(os.path.join(work, f"input{i}.wav"))
        write_wav(wavs[-1], pcm)
    warm = os.path.join(work, "warmup.wav")
    write_wav(warm, pcms[0][: w.width])

    tracer = Tracer()
    speed = HostSpeed(w.reference)
    checks = {
        # one pursuit iteration loads every code path; all 16 of the fixed
        # datapath would add 3-4 s to each run
        "warmup": round_trip(
            dataclasses.replace(w, k=1), warm, w.width, work, tracer, False, speed
        )["ok_exit"]
    }
    ref_digests = reference["digests"] if reference else [None] * len(wavs)
    ref_snr = reference["snr_db"] if reference else [None] * len(wavs)
    energies = [None] * len(wavs)
    ops, setup = [], []
    min_ops = max(len(wavs), 2 if trace else 1)
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        if len(setup) < probes and (
            time.perf_counter() - start >= len(setup) * seconds / probes
        ):
            wall = setup_probe(w)
            setup.append({"wall": wall, "scale": speed.scale()[0]})
            continue
        i = len(ops) % len(wavs)
        traced = trace and len(ops) % 2 == 1
        if traced:
            tracer.install()
        try:
            # traced operations decode once, so layer metrics are per round trip
            op = round_trip(w, wavs[i], len(pcms[i]), work, tracer, not traced,
                            speed)
        finally:
            if traced:
                tracer.uninstall()
        sig, err = snr_parts(pcms[i], op.pop("decoded"))
        snr = snr_db(sig, err)
        if energies[i] is None:
            energies[i] = (sig, err)
        if ref_digests[i] is None:  # unrecorded seed: the first pass is the reference
            ref_digests[i], ref_snr[i] = op["digest"], snr
        op["snr_db"] = snr
        op["ok"] = (
            op["ok_exit"]
            and op["digest"] == ref_digests[i]
            and abs(snr - ref_snr[i]) <= 1e-6
        )
        op["audio_s"] = len(pcms[i]) / RATE
        op["traced"] = traced
        if traced:
            op["layers"] = tracer.collect()
        ops.append(op)
    total_sig = sum(e[0] for e in energies)
    total_err = sum(e[1] for e in energies)
    while len(setup) < probes:
        wall = setup_probe(w)
        setup.append({"wall": wall, "scale": speed.scale()[0]})
    return {
        "ops": ops,
        "setup_s": setup,
        "checks": checks,
        "recon_snr_db": snr_db(total_sig, total_err),
        "snr_db": ref_snr,
        "digests": ref_digests,
        "reference": "recorded" if reference else "first-pass",
        "absent": sorted(tracer.absent),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def record(w: Workload, seed: int, work: str) -> dict:
    """Digests and SNR of one pass over the seed's inputs at this commit."""
    res = run(w, seed, 0.0, False, work, None, probes=0)
    return {"digests": res["digests"], "snr_db": res["snr_db"]}


def selfcheck(seed: int, trace: bool, work: str) -> dict:
    """Paper acceptance criterion 2 on a short clip-spectral-point input:
    the direct and spectral backends give the same code sequence, which
    backs the digests recorded from the spectral backend. With tracing,
    also check span recording under threads."""
    w = BY_NAME["clip-spectral"]
    wav = os.path.join(work, "equivalence.wav")
    write_wav(wav, equivalence_input(seed))
    sequences, texts = {}, {}
    for backend in ("spectral", "direct"):
        events = os.path.join(work, f"equivalence-{backend}.csv")
        flags = w.codec_flags()
        flags[flags.index("--backend") + 1] = backend
        rc = call_cli(["encode", wav, "-o", events, "--with-raw-intensity", *flags])
        if rc != 0:
            return {"equivalence": False, "detail": f"{backend} encode exit {rc}"}
        with open(events) as fh:
            texts[backend] = fh.read()
        sequences[backend] = [
            tuple(line.split(",")[:3]) for line in texts[backend].splitlines()[1:]
        ]
    out = {
        "equivalence": sequences["spectral"] == sequences["direct"],
        "codes": len(sequences["spectral"]),
        "bytes_identical": texts["spectral"] == texts["direct"],
    }
    if trace:
        problem = check_threaded(workers=max(1, len(os.sched_getaffinity(0))))
        out["threaded_trace"] = problem is None
        out["detail"] = problem
    return out


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "selfcheck":
        seed, trace, out = int(argv[1]), argv[2] == "1", argv[3]
        result = selfcheck(seed, trace, os.path.dirname(out))
    elif mode == "run":
        name, seed, seconds, trace, work, out = argv[1:7]
        result = run(BY_NAME[name], int(seed), float(seconds), trace == "1",
                     work, recorded(name, int(seed)),
                     probes=0 if trace == "1" else SETUP_PROBES)
    elif mode == "record":
        name, seed, work, out = argv[1:5]
        result = record(BY_NAME[name], int(seed), work)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    with open(out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

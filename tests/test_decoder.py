import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikecodec.decoder import _kernel_bank, error_curve, reconstruct
from spikecodec.dictionary import Dictionary, DictionaryConfig, build_dictionary
from spikecodec.encoder import EncoderConfig, Segment, encode_segment, shift_kernel
from spikecodec.errors import NumericError
from spikecodec.pipeline import codes_from_events, encode_signal, make_audio_clip
from spikecodec.spikecoder import DEFAULT_CENTERS, build_channel_table, emit_stream

from conftest import codes, column_zero_dictionary


# ----- the error report of a reconstruction, which the tests below use -----

class LengthMismatch(NumericError):
    pass


@dataclass
class ReconstructionReport:
    l2_error: float
    snr_db: float


def reconstruction_error(x: np.ndarray, x_hat: np.ndarray) -> ReconstructionReport:
    """L2 error and SNR of a reconstruction against the reference signal."""
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape:
        raise LengthMismatch(f"length mismatch: {x.shape} vs {x_hat.shape}")
    err = float(np.linalg.norm(x - x_hat))
    ref = float(np.linalg.norm(x))
    if err == 0.0:
        snr = math.inf
    elif ref == 0.0:
        snr = -math.inf
    else:
        snr = 20.0 * math.log10(ref / err)
    return ReconstructionReport(l2_error=err, snr_db=snr)


# ----- the per-code decoder, kept as the oracle of the array one -----

def _loop_codes(codesets, dictionary, width, total_len):
    """(seg, m, tau, s) of every code in list order, checked one at a time."""
    rows = []
    for cs in codesets:
        for seg, m, tau, s in cs.tolist():
            if not (0 <= m < dictionary.num_kernels and abs(tau) <= width // 2
                    and 0 <= seg and seg * width < total_len):
                raise NumericError(
                    f"code {(seg, m, tau, s)} out of range for "
                    f"{dictionary.num_kernels} kernels, W={width}, {total_len} samples"
                )
            rows.append((seg, m, tau, s))
    return rows


def loop_reconstruct(codesets, dictionary, width, total_len):
    """One shifted kernel added per code, in list order."""
    out = np.zeros(total_len)
    for seg, m, tau, s in _loop_codes(codesets, dictionary, width, total_len):
        span = out[seg * width : (seg + 1) * width]
        span += (s * shift_kernel(dictionary.kernels[m], tau, width))[: len(span)]
    return out


def loop_error_curve(x, codesets, dictionary, width):
    """Every code's subtraction once per rank, rank = position in its code set."""
    codes = _loop_codes(codesets, dictionary, width, len(x))
    rank = [k for cs in codesets for k in range(len(cs))]
    residual = np.array(x, dtype=np.float64)
    curve = []
    for k in range(max(rank, default=-1) + 1):
        for (seg, m, tau, s), r in zip(codes, rank):
            if r == k:
                span = residual[seg * width : (seg + 1) * width]
                span -= (s * shift_kernel(dictionary.kernels[m], tau, width))[
                    : len(span)]
        curve.append((k + 1, float(np.linalg.norm(residual))))
    return curve


def _random_dictionary(width, kernel_len, num_kernels=5):
    rng = np.random.default_rng([width, kernel_len])
    kernels = rng.standard_normal((num_kernels, kernel_len))
    return Dictionary(kernels, np.arange(1.0, num_kernels + 1.0), DictionaryConfig(
        num_kernels=num_kernels, kernel_len=kernel_len))


# (W, kernel_len): kernels shorter than, as long as, and longer than W, and
# longer than the 3W/2 a shift can reach
SHAPES = [(8, 5), (16, 16), (16, 40), (30, 23), (9, 9)]
DICTS = {shape: _random_dictionary(*shape) for shape in SHAPES}


@st.composite
def _decodes(draw, one_set_per_segment=False):
    """(dictionary, width, total_len, code sets): up to 4
    segments, with code sets that share a segment, are empty or come out of
    segment order, up to 20 codes in a segment, shifts of exactly +/-W/2,
    intensities of both signs and zero, and a last segment that may be cut."""
    width, kernel_len = draw(st.sampled_from(SHAPES))
    n_seg = draw(st.integers(1, 4))
    tau = st.one_of(st.sampled_from([-(width // 2), width // 2]),
                    st.integers(-(width // 2), width // 2))
    s = st.one_of(st.sampled_from([0.0, -0.0]),
                  st.floats(-1e6, 1e6, allow_subnormal=False))
    code = st.tuples(st.integers(0, n_seg - 1), st.integers(0, 4), tau, s)
    if one_set_per_segment:
        order = draw(st.permutations(range(n_seg)))
        codesets = [codes(*[(seg, *c[1:]) for c in draw(st.lists(code, max_size=20))])
                    for seg in order]
    else:
        codesets = [codes(*rows) for rows in draw(
            st.lists(st.lists(code, max_size=20), max_size=5))]
    total_len = n_seg * width - draw(st.integers(0, width - 1))
    return DICTS[width, kernel_len], width, total_len, codesets


def _read_back(codesets, dictionary, width, itp):
    """The code sets as a quantized decode reads them from their events,
    emitted under the metric `itp`: grouped by segment, zero codes dropped,
    each s the fired channel's center with its sign. None: as given."""
    if itp is None:
        return codesets
    table = build_channel_table(dictionary.num_kernels)
    return codes_from_events(emit_stream(codesets, table, width, itp), width,
                             quantized=True)


ITP = st.sampled_from([None, "log", "linear"])
EDGE_CASES = (DICTS[16, 16], 16, 45, [
    codes((0, 0, -8, 1.5), (1, 4, 8, -2.0)),
    codes((1, 1, -8, 3.0), (2, 1, 3, -0.0), (2, 1, 3, -0.0))])


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except NumericError as exc:  # an out-of-range code, nothing else
        if " out of range for " not in str(exc):
            raise
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(decode=_decodes(), itp=ITP, bad=st.lists(st.tuples(
    st.integers(0, 5), st.sampled_from(["segment", "kernel", "shift"])), max_size=2))
# shifts of +/-W/2, segment 1 in two code sets, a last segment cut 3 samples
# short, and segment 2's -0.0 atoms, which sum to -0.0 by themselves; read
# back quantized, the -0.0 codes emit no event
@example(decode=EDGE_CASES, itp=None, bad=[])
@example(decode=EDGE_CASES, itp="log", bad=[])
def test_reconstruct_equals_the_per_code_loop_byte_for_byte(decode, itp, bad):
    d, width, total_len, codesets = decode
    codesets = _read_back(codesets, d, width, itp)
    for i, field in bad:  # out-of-range codes at drawn places in the list
        wrong = {"segment": (-(-total_len // width), 0, 0, 1.0),
                 "kernel": (0, d.num_kernels, 0, 2.0),
                 "shift": (0, 0, -(width // 2) - 1, 3.0)}[field]
        codesets = codesets[:i] + [codes(wrong)] + codesets[i:]
    given_bytes = [cs.tobytes() for cs in codesets]
    args = (codesets, d, width, total_len)
    got = _outcome(reconstruct, *args)
    want = _outcome(loop_reconstruct, *args)
    if isinstance(want, str):  # the same first code in list order
        assert got == want
    else:
        assert got.tobytes() == want.tobytes()
    assert [cs.tobytes() for cs in codesets] == given_bytes  # read, not written


@settings(max_examples=150, deadline=None)
@given(decode=_decodes(one_set_per_segment=True), itp=ITP,
       seed=st.integers(0, 2**32 - 1))
def test_error_curve_equals_the_per_code_loop(decode, itp, seed):
    d, width, total_len, codesets = decode
    codesets = _read_back(codesets, d, width, itp)
    x = np.random.default_rng(seed).standard_normal(total_len)
    assert (_outcome(error_curve, x, codesets, d, width)
            == _outcome(loop_error_curve, x, codesets, d, width))


def _hand_built(kernels):
    m = len(kernels)
    return Dictionary(kernels, np.arange(1.0, m + 1.0), DictionaryConfig(
        num_kernels=m, kernel_len=kernels.shape[1]))


@pytest.mark.parametrize("width, dictionary", [
    (2, lambda: build_dictionary(DictionaryConfig(num_kernels=5, kernel_len=2))),
    (6, lambda: build_dictionary(DictionaryConfig(num_kernels=5, kernel_len=6))),
    (256, lambda: build_dictionary(DictionaryConfig(num_kernels=8, kernel_len=256))),
    # kernel_len below W/2, above 3W/2, where the bank keeps [lo, 3W/2), and
    # above 3W, where the support starts past 3W/2 and the bank keeps none
    (256, lambda: build_dictionary(DictionaryConfig(num_kernels=8, kernel_len=100))),
    (256, lambda: build_dictionary(DictionaryConfig(num_kernels=8, kernel_len=500))),
    (6, lambda: build_dictionary(DictionaryConfig(num_kernels=5, kernel_len=20))),
    # support from column 0: past 3W/2 (pitch 2W), and within it (pitch 3W/2)
    (6, lambda: _hand_built(np.random.default_rng(6).standard_normal((4, 11)))),
    (100, column_zero_dictionary),
    (6, lambda: _hand_built(np.zeros((3, 6)))),  # no support at all
], ids=["W2", "W6", "W256", "W256-L100", "W256-L500", "W6-L20", "W6-dense-L11",
        "W100-column-zero", "W6-zero-kernels"])
def test_kernel_bank_rows_are_shifted_kernels(width, dictionary):
    # neighbouring rows share one flat buffer's zeros: each window must
    # still read its own kernel and zeros only
    d = dictionary()
    bank = _kernel_bank(d, width)
    assert bank.shape == (d.num_kernels, width + 1, width)
    for m in range(d.num_kernels):
        for tau in range(-(width // 2), width // 2 + 1):
            want = shift_kernel(d.kernels[m], tau, width)
            assert bank[m, width // 2 - tau].tobytes() == want.tobytes(), (m, tau)
    assert not bank.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        bank[0, 0, 0] = 1.0


def _table_bytes(dictionary: Dictionary) -> int:
    """nbytes of the kernels and of every array the dictionary's tables
    hold, each buffer once: a view counts as the array it views."""
    buffers = {}

    def visit(value):
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            buffers[id(value)] = value.nbytes
        elif isinstance(value, tuple):
            for item in value:
                visit(item)
        elif hasattr(value, "__dict__"):  # a SpectralDictionary and its bound
            for item in vars(value).values():
                visit(item)

    visit(dictionary.kernels)
    for value in dictionary._tables.values():
        visit(value)
    return sum(buffers.values())


def test_reference_point_table_bytes_are_pinned(full_dict):
    # W=2048, 40 kernels, after one spectral encode and one decode: kernels
    # 655,360 B, the rfft bins 983,680 B and their row bounds 491,840 B, and
    # the decode bank at a 3W/2 pitch 991,232 B. All of the FFT bins and a
    # 2W-wide row per kernel took 4,424,000 B; a table that regrows fails here
    d = Dictionary(full_dict.kernels, full_dict.center_freqs, full_dict.config)
    cfg = EncoderConfig(width=2048, backend="spectral")
    codeset = encode_segment(Segment(make_audio_clip(2048, seed=0)), d, cfg=cfg)
    reconstruct([codeset], d, 2048, 2048)
    assert sorted(d._tables) == [("bank", 2048), ("spectra", 2048)]
    assert _table_bytes(d) == 3_122_112


def test_empty_codesets_reconstruct_to_silence(small_dict):
    out = reconstruct([], small_dict, width=256, total_len=1024)
    assert out.shape == (1024,)
    assert not np.any(out)


def test_encode_reconstruct_round_trip(full_dict):
    x = 3.0 * shift_kernel(full_dict.kernels[9], -40, 2048)
    cfg = EncoderConfig(max_codes=4, halt_threshold=1e-6, width=2048)
    codeset = encode_segment(Segment(x), full_dict, cfg=cfg)
    x_hat = reconstruct([codeset], full_dict, width=2048, total_len=2048)
    assert np.linalg.norm(x - x_hat) < 1e-6 * np.linalg.norm(x)


def test_disjoint_codes_superpose_linearly(small_dict):
    a = codes((0, 7, -100, 1.5))
    b = codes((1, 7, 60, -0.7))
    together = reconstruct([a, b], small_dict, 256, 512)
    separate = reconstruct([a], small_dict, 256, 512) + reconstruct(
        [b], small_dict, 256, 512
    )
    assert np.array_equal(together, separate)


def test_error_report_on_identical_signals():
    x = np.linspace(-1, 1, 100)
    report = reconstruction_error(x, x.copy())
    assert report.l2_error == 0.0
    assert report.snr_db == math.inf


def test_zero_reconstruction_gives_zero_db():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(500)
    report = reconstruction_error(x, np.zeros(500))
    assert abs(report.snr_db) < 1e-12
    assert abs(report.l2_error - np.linalg.norm(x)) < 1e-12


def test_error_report_matches_norm_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(256)
    x_hat = rng.standard_normal(256)
    report = reconstruction_error(x, x_hat)
    l2 = float(np.sqrt(np.sum((x - x_hat) ** 2)))
    assert abs(report.l2_error - l2) < 1e-12
    assert abs(report.snr_db - 20 * math.log10(np.linalg.norm(x) / l2)) < 1e-12


def test_length_mismatch_rejected():
    with pytest.raises(LengthMismatch):
        reconstruction_error(np.zeros(4), np.zeros(5))


def test_out_of_bounds_codes_rejected(small_dict):
    bad_kernel = [codes((0, 50, 0, 1.0))]
    with pytest.raises(NumericError, match=" out of range for "):
        reconstruct(bad_kernel, small_dict, 256, 256)
    bad_segment = [codes((4, 0, 0, 1.0))]
    with pytest.raises(NumericError, match=" out of range for "):
        reconstruct(bad_segment, small_dict, 256, 1024)
    bad_tau = [codes((0, 0, 200, 1.0))]
    with pytest.raises(NumericError, match=" out of range for "):
        reconstruct(bad_tau, small_dict, 256, 256)


def test_error_curve_is_monotone_on_noise(small_dict):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(512)
    cfg = EncoderConfig(max_codes=16, width=256)
    codesets = [
        encode_segment(Segment(x[i * 256 : (i + 1) * 256], segment_index=i),
                       small_dict, cfg=cfg)
        for i in range(2)
    ]
    curve = error_curve(x, codesets, small_dict, 256)
    assert [k for k, _ in curve] == list(range(1, 17))
    errors = [e for _, e in curve]
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] < np.linalg.norm(x)


def test_error_curve_on_a_partial_last_segment(small_dict):
    # 600 samples at W=256: the encoder zero-pads the third segment to 256,
    # and the decoder cuts its atoms at sample 600
    x = make_audio_clip(600, seed=1)
    codesets = encode_signal(x, small_dict, EncoderConfig(max_codes=8, width=256))
    assert len(codesets) == 3 and len(codesets[2])
    x_hat = reconstruct(codesets, small_dict, 256, 600)
    assert np.array_equal(x_hat, reconstruct(codesets, small_dict, 256, 768)[:600])
    curve = error_curve(x, codesets, small_dict, 256)
    assert [k for k, _ in curve] == list(range(1, 9))
    assert curve[-1][1] == pytest.approx(np.linalg.norm(x - x_hat), rel=1e-9)
    # the padded tail's residual, -(the atoms past sample 600), counts there only
    padded = error_curve(np.concatenate([x, np.zeros(168)]), codesets, small_dict, 256)
    assert all(e <= p * (1 + 1e-12) for (_, e), (_, p) in zip(curve, padded))


def test_full_report_and_quantized_mode(small_dict):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(256)
    cfg = EncoderConfig(max_codes=8, width=256)
    codesets = [encode_segment(Segment(x.copy()), small_dict, cfg=cfg)]

    raw = reconstruction_error(x, reconstruct(codesets, small_dict, 256, len(x)))
    curve = error_curve(x, codesets, small_dict, 256)
    assert sum(len(cs) for cs in codesets) == 8
    assert len(curve) == 8
    assert raw.l2_error == pytest.approx(curve[-1][1], rel=1e-9)

    # as decode --quantized reads the events back: each s its channel's center
    quantized = _read_back(codesets, small_dict, 256, "log")
    assert len(quantized[0]) == 8 and set(np.abs(quantized[0].s)) <= set(DEFAULT_CENTERS)
    quant = reconstruction_error(x, reconstruct(quantized, small_dict, 256, len(x)))
    assert math.isfinite(quant.l2_error)
    # quantizing intensities cannot improve on the raw reconstruction here
    assert quant.l2_error >= raw.l2_error

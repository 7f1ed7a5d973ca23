"""Throughput-claim reproduction (Section 5 / abstract).

Paper claims, all at 125 MHz on HDTV (1080x1920):

* classifier completes a frame in 1,200,420 cycles — under 10 ms;
* one window result every 36 cycles after a 288-cycle fill;
* 60 fps at two scales (16.6 ms frame interval, extractor-paced).

This bench regenerates each number from the analytic timing model.
The software pipeline's throughput is measured by ``perfbench/`` (see
``perfbench/README.md``), on the workloads ``BENCHMARK.json`` declares.
"""

from repro.eval.report import format_table
from repro.hardware import FrameTimingModel

from conftest import emit


def test_hardware_timing_claims(benchmark, results_dir):
    model = FrameTimingModel()
    report = benchmark.pedantic(
        lambda: model.frame_report(scales=(1.0, 1.2)), rounds=1, iterations=1
    )

    t1 = model.scale_timing(1.0)
    rows = [
        ["cell grid (HDTV)", f"{model.cell_rows} x {model.cell_cols}", "135 x 240"],
        ["pipeline fill / row", str(model.fill_cycles), "288"],
        ["cycles / cell row", str(t1.cycles_per_row), "8,892 (288 + 36*239)"],
        ["classifier cycles / frame", f"{t1.cycles:,}", "1,200,420"],
        ["classifier time", f"{t1.cycles / model.clock_hz * 1e3:.2f} ms", "< 10 ms"],
        ["extractor cycles / frame", f"{report.extractor_cycles:,}", "2,073,600 (1 px/cycle)"],
        ["frame interval", f"{report.frame_time_s * 1e3:.2f} ms", "16.6 ms"],
        ["throughput", f"{report.frames_per_second:.2f} fps", "60 fps"],
        ["scale-1.2 classifier cycles", f"{model.scale_timing(1.2).cycles:,}", "(second scale, parallel)"],
    ]
    text = format_table(
        ["Quantity", "Model", "Paper"],
        rows,
        title="Throughput reproduction — hardware timing model",
    )
    emit(results_dir, "throughput_hw", text)

    assert t1.cycles == 1_200_420
    assert t1.cycles / model.clock_hz < 0.010
    assert report.frames_per_second > 60.0
    assert report.meets_rate(60.0)


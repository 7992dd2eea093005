"""The per-metric verdicts of scripts/bench_compare.py."""

from bench_compare import report

METRICS = [
    {"name": "slower", "better": "lower", "bound": 0.1},
    {"name": "faster", "better": "higher", "bound": 0.1},
    {"name": "noisy", "better": "lower", "bound": 0.05},
    {"name": "flat", "better": "lower", "bound": 0.1},
]


def _run(side: str, pair: int) -> dict:
    change = side == "change"
    return {
        "side": side,
        "workload": "w",
        "seed": 1,
        "pair": pair,
        "metrics": {
            "slower": 1.2 if change else 1.0,
            "faster": 110.0 + pair if change else 100.0 + pair,
            "noisy": 1.0 + 0.1 * ((pair + change) % 3),
            "flat": 1.0,
        },
        # uncorrected figures of the first two metrics only, as perfbench
        # stores them for its timings alone
        "raw": {"slower": 1.0, "faster": 90.0 + pair if change else 110.0 + pair},
        "values_sha256": "v",
        "csv_sha256": "c",
    }


def test_each_metric_gets_its_verdict():
    bench = {"runs": [_run(side, pair) for pair in range(1, 11) for side in ("parent", "change")]}
    lines = report(bench, METRICS)
    verdicts = {line.split()[0]: line.split()[-1] for line in lines[2:6]}
    assert verdicts == {"slower": "WORSE", "faster": "gain", "noisy": "unresolved", "flat": "ok"}
    assert lines[6] == "  raw, not corrected for machine speed:"
    raw = {line.split()[0]: line.split()[-1] for line in lines[7:9]}
    assert raw == {"slower": "ok", "faster": "WORSE"}
    assert lines[9:] == ["  values_sha256: equal on every run", "  csv_sha256: equal on every run"]


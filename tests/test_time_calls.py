"""scripts/time_calls.py on a tiny case: one pair, this checkout on both sides."""

from pathlib import Path

import time_calls


def test_one_quick_pair_reports_every_case(capsys):
    root = Path(time_calls.__file__).resolve().parents[1]
    assert time_calls.main(["--against", str(root), "--pairs", "1", "--quick"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == (
        "case unit parent median change median change pair q1 pair q3 won".split()
    )
    assert [row.split()[:2] for row in rows] == [
        ["sweep", "us/p"],
        ["large-n", "ms/job"],
        ["poisson", "ms/tgt"],
        ["tables", "ms/tbl"],
        ["kernel", "us/call"],
        ["intervals", "ms/tbl"],
        ["big-n", "ms/call"],
    ]
    for row in rows:
        cells = row.split()
        parent, change, won = float(cells[2]), float(cells[3]), cells[-1]
        assert parent > 0.0 and change > 0.0 and won in ("0/1", "1/1")
        # with one pair both quartiles are that pair's change
        assert cells[5] == cells[6]


def test_pairs_won_count_the_faster_change_runs():
    parent = [
        {"sweep": 2e-5, "large-n": 1e-2, "poisson": 1e-3, "tables": 8e-4, "kernel": 4e-6,
         "intervals": 3e-3, "big-n": 2e-1}
    ] * 2
    change = [
        {"sweep": 1e-5, "large-n": 2e-2, "poisson": 5e-4, "tables": 4e-4, "kernel": 4e-6,
         "intervals": 2e-3, "big-n": 8e-2},
        {"sweep": 3e-5, "large-n": 1e-2, "poisson": 5e-4, "tables": 9e-4, "kernel": 2e-6,
         "intervals": 3e-3, "big-n": 1.6e-1},
    ]
    sweep, large, pois, tables, kernel, intervals, big = time_calls.report(parent, change)[1:]
    assert sweep.split()[2:] == ["20", "20", "+0.0%", "-25.0%", "+25.0%", "1/2"]
    assert large.split()[2:] == ["10", "15", "+50.0%", "+25.0%", "+75.0%", "0/2"]
    assert pois.split()[2:] == ["1", "0.5", "-50.0%", "-50.0%", "-50.0%", "2/2"]
    assert tables.split()[2:] == ["0.8", "0.65", "-18.8%", "-34.4%", "-3.1%", "1/2"]
    assert kernel.split()[2:] == ["4", "3", "-25.0%", "-37.5%", "-12.5%", "1/2"]
    assert intervals.split()[2:] == ["3", "2.5", "-16.7%", "-25.0%", "-8.3%", "1/2"]
    assert big.split()[2:] == ["200", "120", "-40.0%", "-50.0%", "-30.0%", "2/2"]

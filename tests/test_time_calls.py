"""scripts/time_calls.py on a tiny case: one pair, this checkout on both sides."""

from pathlib import Path

import time_calls


def test_one_quick_pair_reports_every_case(capsys):
    root = Path(time_calls.__file__).resolve().parents[1]
    assert time_calls.main(["--against", str(root), "--pairs", "1", "--quick"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == (
        "case unit parent median change median change pair q1 pair q3 won parent KiB change KiB"
    ).split()
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
        parent, change, won = float(cells[2]), float(cells[3]), cells[7]
        assert parent > 0.0 and change > 0.0 and won in ("0/1", "1/1")
        # with one pair both quartiles are that pair's change
        assert cells[5] == cells[6]
        # the same code on both sides holds about the same memory in its
        # cold round, where its CPU time varies
        parent_kib, change_kib = int(cells[8]), int(cells[9])
        assert 0 <= parent_kib and abs(change_kib - parent_kib) <= 0.1 * parent_kib + 1
    # the cold risk at n = 1e4 holds a window and the rows it reads
    assert int(rows[-1].split()[8]) > 100


def test_pairs_won_count_the_faster_change_runs():
    # each case maps to [seconds per unit, bytes of the cold round's peak]
    kib = 1024
    parent = [
        {"sweep": [2e-5, 4 * kib], "large-n": [1e-2, 900 * kib], "poisson": [1e-3, 16 * kib],
         "tables": [8e-4, 300 * kib], "kernel": [4e-6, 2 * kib],
         "intervals": [3e-3, 80 * kib], "big-n": [2e-1, 3000 * kib]}
    ] * 2
    change = [
        {"sweep": [1e-5, 4 * kib], "large-n": [2e-2, 600 * kib], "poisson": [5e-4, 16 * kib],
         "tables": [4e-4, 200 * kib], "kernel": [4e-6, 2 * kib],
         "intervals": [2e-3, 80 * kib], "big-n": [8e-2, 2000 * kib]},
        {"sweep": [3e-5, 6 * kib], "large-n": [1e-2, 700 * kib], "poisson": [5e-4, 16 * kib],
         "tables": [9e-4, 200 * kib], "kernel": [2e-6, 2 * kib],
         "intervals": [3e-3, 80 * kib], "big-n": [1.6e-1, 2000 * kib]},
    ]
    sweep, large, pois, tables, kernel, intervals, big = time_calls.report(parent, change)[1:]
    assert sweep.split()[2:] == ["20", "20", "+0.0%", "-25.0%", "+25.0%", "1/2", "4", "5"]
    assert large.split()[2:] == ["10", "15", "+50.0%", "+25.0%", "+75.0%", "0/2", "900", "650"]
    assert pois.split()[2:] == ["1", "0.5", "-50.0%", "-50.0%", "-50.0%", "2/2", "16", "16"]
    assert tables.split()[2:] == ["0.8", "0.65", "-18.8%", "-34.4%", "-3.1%", "1/2", "300", "200"]
    assert kernel.split()[2:] == ["4", "3", "-25.0%", "-37.5%", "-12.5%", "1/2", "2", "2"]
    assert intervals.split()[2:] == ["3", "2.5", "-16.7%", "-25.0%", "-8.3%", "1/2", "80", "80"]
    assert big.split()[2:] == ["200", "120", "-40.0%", "-50.0%", "-30.0%", "2/2", "3000", "2000"]

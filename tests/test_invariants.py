"""Invariants that hold for every input, checked without an oracle.

The CLI slice runs binrisk.cli.main in process on seeded argument lists
for the six commands. Each flag takes a value from its own list of valid
values nine times in ten, else one from an edge menu: 0, negative values,
NaN, +-inf, 5e-324, 1e300 and the edges of p_bar, 1e-10 and 1 - 1e-9 inside
(0, 1) and 0 and 1 outside it; the trial counts lie on both sides of 64, so
both the row pass and the window pass run. main must never raise, must
return 0, 1 or 2, and must never print nan or inf with exit 0.
"""

import random
import re

from binrisk.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main

EDGES = ("0", "-1", "-0.5", "nan", "inf", "-inf", "5e-324", "1e300", "1e-10", "0.999999999", "1")

COMMON = {
    "--n": ("1", "2", "5", "30", "63", "64", "65", "120"),
    "--a": ("0.5", "1", "2", "1e-3", "30"),
    "--b": ("0.5", "1", "3", "1e-3"),
    "--p-bar": ("0.3", "0.5", "0.9", "0.999999999", "1e-10"),
}
OPTIONAL_COMMON = {"--p-lo": ("0.01", "0.1", "0.2")}

# per command: the flags every list gives, then the flags half of them give
COMMANDS = {
    "estimate": ({**COMMON}, {**OPTIONAL_COMMON, "--p": ("0.1", "0.29", "0.5")}),
    "predictive": (
        {**COMMON, "--x": ("0", "1", "2")},
        {**OPTIONAL_COMMON, "--l": ("1", "3", "12", "70")},
    ),
    "risk-curve": ({**COMMON, "--grid": ("2", "4", "8")}, {**OPTIONAL_COMMON}),
    "dominance": ({**COMMON, "--grid": ("2", "4", "8")}, {**OPTIONAL_COMMON}),
    "threshold": ({"--a": ("0.5", "1", "2", "20"), "--grid": ("3", "5", "10")}, {}),
    "poisson-limit": (
        {"--k-grid": ("10", "1 10", "10 100")},
        {
            "--a": ("0.5", "1", "2"),
            "--r": ("0.5", "1", "2"),
            "--s": ("0.5", "1"),
            "--lam": ("0.5", "1", "2"),
            "--lambda-bar": ("1", "2"),
            "--x-tilde": ("0", "1", "2"),
        },
    ),
}

NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def argument_lists(seed: int, count: int) -> list[list[str]]:
    rng = random.Random(seed)
    lists = []
    for _ in range(count):
        command = rng.choice(sorted(COMMANDS))
        required, optional = COMMANDS[command]
        flags = [*required, *[flag for flag in optional if rng.random() < 0.5]]
        argv = [command]
        for flag in flags:
            menu = {**required, **optional}[flag]
            value = rng.choice(menu) if rng.random() < 0.9 else rng.choice(EDGES)
            argv += [flag, *value.split()]
        lists.append(argv)
    return lists


def test_cli_returns_a_status_and_prints_no_non_finite_value_on_success(capsys):
    statuses = {EXIT_OK: 0, EXIT_VALIDATION: 0, EXIT_NUMERICAL: 0}
    for argv in argument_lists(2026, 1_000):
        status = main(argv)
        out, err = capsys.readouterr()
        assert status in statuses, (argv, status)
        statuses[status] += 1
        if status == EXIT_OK:
            assert NON_FINITE.search(out + err) is None, (argv, out, err)
    # most lists are valid and run their command to its end (591 of 1,000,
    # with 368 validation errors and 41 numerical failures)
    assert statuses[EXIT_OK] > 500 and min(statuses.values()) > 0, statuses

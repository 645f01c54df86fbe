"""The CLI contract on arbitrary input files and flags: exit 0, 1 or 2, never a traceback."""

import contextlib
import io
import tempfile
from datetime import date, timedelta
from operator import itemgetter
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hydrospline.cli import main

# numbers: any finite float (huge and tiny included) or integer
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: repr(v).encode()),
    st.integers(-10**6, 10**6).map(lambda v: str(v).encode()),
)
# cells: numbers, markers, junk, a quoted cell holding a newline and non-UTF-8 bytes
CELLS = st.one_of(
    NUMBERS,
    st.sampled_from(
        [b"*", b"-", b"", b" 7.5 ", b"1e400", b"-1e-320", b"1.7976931348623157e308",
         b"nan", b"abc", b"caf\xe9", b"\xff\xfe", "é".encode(), b'"1\n2"']
    ),
)
# a record: a day after the epoch and two value cells, as the header asks; or, one time
# in eight, a junk or impossible date or a valid one, and zero to three value cells
RECORD = st.tuples(st.integers(0, 800), st.tuples(CELLS, CELLS))
ODD_RECORD = st.tuples(
    st.one_of(st.integers(0, 800), st.sampled_from([b"2/30/2003", b"13/1/2003", b"x", b""])),
    st.lists(CELLS, max_size=3).map(tuple),
)
ROWS = st.lists(st.integers(0, 7).flatmap(lambda k: ODD_RECORD if k == 0 else RECORD),
                max_size=12)
# well-formed records only: distinct days after the epoch and two numbers each, so most
# tables reach the fits
WELL_FORMED_ROWS = st.lists(st.tuples(st.integers(0, 800), st.tuples(NUMBERS, NUMBERS)),
                            max_size=12, unique_by=itemgetter(0))
EPOCHS = st.dates(min_value=date(1000, 1, 1), max_value=date(9000, 1, 1))
PREFIXES = st.sampled_from([b"", b"\xef\xbb\xbf"])  # with and without a UTF-8 BOM


def _flag(name, values):
    """No flag (the default), or the flag with a drawn value."""
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


# each flag over its whole accepted range; --resolution stops at 2,000 to keep examples fast
METHOD = _flag("--method", st.sampled_from(["spline", "lagrange", "smooth"]))
LAMBDA = _flag("--lambda", st.floats(0.0, 1e308))
RESOLUTION = _flag("--resolution", st.integers(2, 2000))
# the ends of the range drawn often: only huge coefficients leave the float range
COEFFICIENT = st.one_of(st.sampled_from([1e-300, 1e308]), st.floats(1e-300, 1e308))

PLOT = st.tuples(
    st.just(["plot", "--param", "B", "--out", "{out}.svg"]),
    st.sampled_from([[], ["--harmonic"]]),
    METHOD,
    LAMBDA,
    RESOLUTION,
)
# constant columns of large magnitude: their plot range has zero span, and the 0.5 pad
# that widens a zero span is lost to rounding from about 1e16 on
MAGNITUDES = st.one_of(st.sampled_from([1e15, 1e16, 1e300]), st.floats(1e15, 1e300))
CONSTANT_CELLS = st.tuples(MAGNITUDES, st.sampled_from([1.0, -1.0])).map(
    lambda pair: repr(pair[0] * pair[1]).encode()
)

COMMANDS = st.one_of(
    st.tuples(
        st.just(["interp", "--param", "A", "--out", "{out}.csv"]), METHOD, LAMBDA, RESOLUTION
    ),
    st.tuples(st.just(["extrema", "--param", "A"])),
    st.tuples(st.just(["trend", "--param", "B"])),
    st.tuples(st.just(["correlate", "--param-a", "A", "--param-b", "B"])),
    st.tuples(
        st.just(["harmonic", "--param", "A"]),
        _flag("--angular-coeff", COEFFICIENT),
        _flag("--exponent", COEFFICIENT),
    ),
    PLOT,
)


def _table(epoch, rows):
    """A table with header Data,A,B; each row's date is a day offset from the
    epoch or the cell itself."""
    lines = [b"Data,A,B"]
    for when, values in rows:
        if isinstance(when, int):
            day = epoch + timedelta(days=when)
            when = f"{day.month}/{day.day}/{day.year}".encode()
        lines.append(b",".join([when, *values]))
    return b"\n".join(lines) + b"\n"


def _exits_cleanly(table, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes(table)
        argv = [arg.replace("{out}", str(Path(tmp) / "out")) for part in command for arg in part]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([argv[0], "--input", str(path), *argv[1:]])
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    if code == 2:
        assert stderr.getvalue().count("\n") == 1


# derandomized so the suite runs the same examples every time; raise max_examples to explore
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(prefix=PREFIXES, epoch=EPOCHS, rows=ROWS, command=COMMANDS)
def test_any_table_exits_cleanly(prefix, epoch, rows, command):
    _exits_cleanly(prefix + _table(epoch, rows), command)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(epoch=EPOCHS, rows=WELL_FORMED_ROWS, command=COMMANDS)
def test_well_formed_table_exits_cleanly(epoch, rows, command):
    _exits_cleanly(_table(epoch, rows), command)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    epoch=EPOCHS,
    days=st.lists(st.integers(0, 800), max_size=12),
    cell=CONSTANT_CELLS,
    command=PLOT,
)
def test_constant_columns_of_large_magnitude_plot_cleanly(epoch, days, cell, command):
    _exits_cleanly(_table(epoch, [(day, (cell, cell)) for day in days]), command)

"""The text writer against a per-float reference.

``write_trace_csv`` formats each distinct float of a batch of rows once, into
a table of NUL-padded bytes, and assembles trace.csv, spacing.dat and
velocity.dat from that table, a block of rows at a time, by dropping the
NULs.  A worker thread formats the next batch while the caller writes the
current one.  The reference below formats every printed float on its own
with ``repr``, as the writers did before; the files must be byte-equal,
with the stages overlapped or run one after the other.
"""

import contextlib
import dataclasses
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import platoonsec._floatfmt
import platoonsec.engine
from platoonsec.cli import EXIT_OK, main
from platoonsec._floatfmt import shortest
from platoonsec.config import load_scenario
from platoonsec.control import ACC, CACC
from platoonsec.engine import (_CELL, _FORMAT_ROWS, SimTrace, _one_ahead, run_scenario,
                               write_trace_csv)

FILES = ("trace.csv", "spacing.dat", "velocity.dat")
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------- reference

_CSV_FLOAT = repr  # shortest round-trip representation: byte-stable given a seed


def _row_lists(*arrays):
    """The arrays' rows side by side as Python values, converted a block of
    rows at a time so that a writer never holds a whole trace as objects."""
    for k in range(0, len(arrays[0]), 1024):
        yield from zip(*(a[k:k + 1024].tolist() for a in arrays))


def reference_trace_csv(trace: SimTrace, path):
    n = trace.positions.shape[1]
    header = ["t"]
    for i in range(1, n + 1):
        header += [f"x{i}", f"v{i}", f"u{i}"]
    header += [f"mode{i}" for i in range(2, n + 1)]
    header += [f"eps{i}" for i in range(2, n + 1)]
    header.append("xi")
    kinematics = np.empty((trace.times.size, 3 * n))
    kinematics[:, 0::3] = trace.positions
    kinematics[:, 1::3] = trace.velocities
    kinematics[:, 2::3] = trace.commands
    mode_names = (CACC, ACC)
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for t, xvu, modes, eps, xi in _row_lists(trace.times, kinematics, trace.modes,
                                                 trace.spacing_errors, trace.attack_xi):
            f.write(",".join([_CSV_FLOAT(t), *map(_CSV_FLOAT, xvu),
                              *(mode_names[m] for m in modes),
                              *map(_CSV_FLOAT, eps), _CSV_FLOAT(xi)]) + "\n")


def reference_dat_files(trace: SimTrace, out: Path):
    n = trace.positions.shape[1]
    for name, labels, series in (
            ("spacing.dat", [f"eps{i}" for i in range(2, n + 1)], trace.spacing_errors),
            ("velocity.dat", [f"v{i}" for i in range(1, n + 1)], trace.velocities)):
        with open(out / name, "w") as f:
            f.write("# t " + " ".join(labels) + "\n")
            for t, row in _row_lists(trace.times, series):
                f.write(" ".join(map(repr, [t, *row])) + "\n")


def reference_files(trace: SimTrace, out: Path):
    reference_trace_csv(trace, out / "trace.csv")
    reference_dat_files(trace, out)


def file_bytes(out: Path) -> dict:
    return {name: (out / name).read_bytes() for name in FILES}


# ----------------------------------------------------------------- property

# bit patterns a float strategy rarely draws: signed zeros, infinities, the
# subnormal and normal extremes, and NaNs with other signs and payloads
EDGE_BITS = np.array([0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000,
                      0xFFF0000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF,
                      0x0010000000000000, 0x7FEFFFFFFFFFFFFF, 0x7FF8000000000000,
                      0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001,
                      0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
EDGES = EDGE_BITS.view(np.float64)
# the longest reprs, 24 bytes (a subnormal and the most negative double), a
# short negative subnormal, and values the formatter leaves to repr
LONGEST = [-1.3498094062947883e-308, -1.7976931348623157e+308, -5e-324]
FALLBACKS = [0.0, -0.0, float("nan"), float("inf")]

# row counts about a quarter of a format batch, and a few small ones
ROW_COUNTS = st.one_of(
    st.sampled_from([255, 256, 257, 515]),
    st.integers(0, 40))


@st.composite
def traces(draw):
    """A SimTrace of 2-6 vehicles whose float cells come from a small pool of
    drawn and edge values, in runs of repeats as long as a converged column's."""
    n = draw(st.integers(2, 6))
    rows = draw(ROW_COUNTS)
    drawn = draw(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                                    allow_subnormal=True), min_size=1, max_size=12))
    pool = np.concatenate([drawn, EDGES])
    return pool_trace(n, rows, pool, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


def pool_trace(n: int, rows: int, pool: np.ndarray, rng) -> SimTrace:
    """A SimTrace of n vehicles whose float cells are ``pool`` values picked
    by ``rng``."""
    def series(*shape):
        """Columns of pool values, each held for runs of 1 to 400 rows."""
        cols = []
        for _ in range(int(np.prod(shape[1:], dtype=int))):
            run = int(rng.choice([1, 3, 400]))
            picks = rng.integers(pool.size, size=rows // run + 1)
            cols.append(np.repeat(pool[picks], run)[:rows])
        return np.column_stack(cols).reshape(shape)

    times, positions, velocities, commands = (series(rows), series(rows, n),
                                              series(rows, n), series(rows, n))
    trace = SimTrace(times=times, positions=positions, velocities=velocities,
                     modes=rng.integers(2, size=(rows, n - 1)).astype(np.uint8),
                     spacing_errors=series(rows, n - 1), attack_xi=series(rows),
                     drawn_reports=[], decision_records=(), mode_records=(), collision=None,
                     config=None, command_spans=())
    trace.commands = commands
    return trace


def column_trace(values, n: int) -> SimTrace:
    """A SimTrace of n vehicles with ``values`` down every float column, one
    row a value."""
    values = np.asarray(values, np.float64)
    grid = np.tile(values[:, None], (1, n))
    trace = SimTrace(times=values.copy(), positions=grid, velocities=grid[:, ::-1].copy(),
                     modes=np.zeros((values.size, n - 1), np.uint8),
                     spacing_errors=grid[:, 1:], attack_xi=values[::-1].copy(),
                     drawn_reports=[], decision_records=(), mode_records=(), collision=None,
                     config=None, command_spans=())
    trace.commands = grid
    return trace


def assert_rows_are_reprs(trace: SimTrace):
    """The formatter leaves each of the trace's distinct floats in its row of
    a writer's table as its repr followed only by NULs, the separator byte
    included: dropping the NULs must leave exactly the text."""
    values = np.unique(np.concatenate(
        [trace.times, trace.positions.ravel(), trace.velocities.ravel(),
         trace.commands.ravel(), trace.spacing_errors.ravel(), trace.attack_xi]
    ).view(np.int64)).view(np.float64)
    table = np.zeros((values.size, _CELL), np.uint8)
    shortest(values, table)
    assert [bytes(row) for row in table] == \
        [repr(v).encode().ljust(_CELL, b"\0") for v in values.tolist()]


def write_and_compare(trace: SimTrace, tmp: Path):
    """Write the trace's three files, and the reference's, under ``tmp``:
    they must be byte-equal."""
    new, ref = tmp / "new", tmp / "ref"
    new.mkdir()
    ref.mkdir()
    write_trace_csv(trace, new / "trace.csv", new / "spacing.dat", new / "velocity.dat")
    reference_files(trace, ref)
    assert file_bytes(new) == file_bytes(ref)


@settings(max_examples=60, deadline=None)
@given(trace=traces())
@example(trace=column_trace(LONGEST + FALLBACKS, 3))
@example(trace=column_trace(np.resize(LONGEST + FALLBACKS[:1], 257), 6))
def test_writer_matches_per_float_reference(trace):
    with tempfile.TemporaryDirectory() as tmp:
        write_and_compare(trace, Path(tmp))
    assert_rows_are_reprs(trace)


def batch_trace(rows: int) -> SimTrace:
    """A 4-vehicle trace of ``rows`` rows from a pool of a few thousand
    magnitudes, which makes each format batch's table of distinct floats
    differ, so cells read from the wrong rows, or the wrong batch, show."""
    rng = np.random.default_rng(rows)
    pool = np.concatenate([np.exp(rng.uniform(-40, 40, 3000)) * rng.choice([-1.0, 1.0], 3000),
                           EDGES])
    return pool_trace(4, rows, pool, rng)


# The writer formats and writes _FORMAT_ROWS rows at a time: these row counts
# end a format batch one row before, at and after its end, 257 rows into the
# next batch, one row into a third (a last batch of one row) and at the end
# of a third, so the worker hands over two and three batches.
@pytest.mark.parametrize("rows", [_FORMAT_ROWS - 1, _FORMAT_ROWS, _FORMAT_ROWS + 1,
                                  _FORMAT_ROWS + 256 + 1, 2 * _FORMAT_ROWS + 1,
                                  3 * _FORMAT_ROWS])
def test_writer_matches_the_reference_about_a_format_batch(rows, tmp_path):
    write_and_compare(batch_trace(rows), tmp_path)
    assert len((tmp_path / "new" / "trace.csv").read_bytes().splitlines()) == 1 + rows


def test_edge_values_survive_formatting(tmp_path):
    """Each edge value in every float column: -0.0 stays apart from 0.0, every
    NaN is written as nan, and the strings read back to the same values.
    Without .dat paths the writer writes trace.csv alone."""
    write_trace_csv(column_trace(EDGES, 3), tmp_path / "trace.csv")
    assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]
    times = [line.split(",")[0] for line in (tmp_path / "trace.csv").read_text().splitlines()[1:]]
    assert times[:2] == ["0.0", "-0.0"]
    assert times[-5:] == ["nan"] * 5
    back = np.array([float(s) for s in times])
    assert np.array_equal(back, EDGES, equal_nan=True)
    assert np.array_equal(np.signbit(back[:8]), np.signbit(EDGES[:8]))


# ------------------------------------------------------------------ stages

@pytest.mark.parametrize("cpus", [1, 2], ids=["one-cpu", "two-cpus"])
def test_a_formatting_error_reaches_the_caller(cpus, monkeypatch, tmp_path):
    """The formatter fails on the second batch: the writer raises its error,
    the first batch's lines alone are written, no batch is formatted after
    the failing one, and no thread is left running, whether the batches are
    formatted on a worker thread (two CPUs) or in the caller (one)."""
    real, calls = shortest, []

    def failing(values, out):
        calls.append(values.size)
        if len(calls) == 2:
            raise RuntimeError("formatter failed")
        return real(values, out)

    monkeypatch.setattr(platoonsec._floatfmt, "shortest", failing)
    monkeypatch.setattr(platoonsec.engine, "usable_cpus", lambda: cpus)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="^formatter failed$"):
        write_trace_csv(batch_trace(3 * _FORMAT_ROWS), *(tmp_path / name for name in FILES))
    assert threading.active_count() == before
    assert len(calls) == 2
    for name in FILES:
        assert len((tmp_path / name).read_bytes().splitlines()) == 1 + _FORMAT_ROWS


def test_leaving_the_batches_early_ends_the_worker(monkeypatch):
    """A caller that stops after the first result (an error while writing,
    say) closes the stages: the worker thread ends, having run at most one
    item ahead."""
    monkeypatch.setattr(platoonsec.engine, "usable_cpus", lambda: 2)
    before, seen = threading.active_count(), []
    with contextlib.closing(_one_ahead(lambda item: seen.append(item) or item * 2,
                                       range(5))) as results:
        assert next(results) == 0
    assert threading.active_count() == before
    assert seen in ([0], [0, 1])


def test_results_come_in_order_under_frequent_switching(monkeypatch):
    """Two thousand items through the worker with the interpreter switching
    threads every microsecond: each result arrives once, in order, and the
    worker never runs more than one item ahead of the caller."""
    monkeypatch.setattr(platoonsec.engine, "usable_cpus", lambda: 2)
    taken, started = [], []

    def stage(item):
        started.append(item)
        assert item <= len(taken) + 1  # at most one ahead of the item in use
        return item

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for result in _one_ahead(stage, range(2000)):
            taken.append(result)
    finally:
        sys.setswitchinterval(interval)
    assert taken == started == list(range(2000))


def test_one_cpu_writes_the_same_bytes(tmp_path):
    """``simulate`` of crash_defended (12 format batches) in a process that may
    use one CPU, which runs both stages in the calling thread, writes the same
    files, byte for byte, as in one that may use every CPU it has."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("the platform sets no CPU affinity")
    cpu = min(os.sched_getaffinity(0))
    src = str(Path(platoonsec.engine.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outputs = {}
    for pinned in (False, True):
        out = tmp_path / ("pinned" if pinned else "free")
        result = subprocess.run(
            [sys.executable, "-c", "import sys, platoonsec.cli; "
                                   "sys.exit(platoonsec.cli.main(sys.argv[1:]))",
             "simulate", "--config", str(CONFIGS / "crash_defended.json"), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if pinned else None)
        assert result.returncode in (0, 2), result.stderr
        outputs[pinned] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert set(FILES) <= set(outputs[False])
    assert outputs[True] == outputs[False]


# ---------------------------------------------------------------- simulate

def test_simulate_files_match_the_reference(tmp_path):
    """``simulate`` on a 601-row run: trace.csv and the two .dat
    files equal the reference writers' output for the same trace."""
    config = tmp_path / "scenario.json"
    config.write_text(
        '{"platoon": {"vehicle_count": 4, "desired_gap": 10.0, "vehicle_length": 4.5,'
        ' "epsilon_max": 4.0}, "attack": {"targets": [3], "window": [1.0, 4.0]},'
        ' "integration": {"step": 0.01, "duration": 6.0}, "seed": 5}')
    out, ref = tmp_path / "out", tmp_path / "ref"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_OK
    ref.mkdir()
    reference_files(run_scenario(load_scenario(config)), ref)
    assert file_bytes(out) == file_bytes(ref)
    assert len((out / "spacing.dat").read_text().splitlines()) == 1 + 601


def test_writer_memory_stays_small(tmp_path):
    """Writing crash_defended's three files at seed 0 (12,001 rows, 5.3 MB)
    peaks under 3 MB of traced memory (2.5 to 2.7 MB with 1,024-row format
    batches, one formatted while the one before is written): the
    formatter's per-value arrays and the padded cells must not grow with
    the trace."""
    trace = run_scenario(dataclasses.replace(
        load_scenario(CONFIGS / "crash_defended.json"), seed=0))
    trace.commands  # built on first read, before the measured span
    tracemalloc.start()
    try:
        write_trace_csv(trace, *(tmp_path / name for name in FILES))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6

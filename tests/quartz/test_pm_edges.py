"""Edge cases of the persistent-write emulator (``repro.quartz.pm``).

Focus: the PCOMMIT model's pending-deadline bookkeeping — barrier with
nothing posted, delays fully hidden by program progress, multi-line
flush accounting, and the deadline-lifetime regression (a thread exiting
with posted-but-uncommitted flushes must not leak its deadlines to a
later thread reusing the tid).
"""

from repro.hw import IVY_BRIDGE, Machine
from repro.ops import Commit, JoinThread, MemBatch, PatternKind, SpawnThread
from repro.os import SimOS
from repro.quartz import Quartz, QuartzConfig, WriteModel, calibrate_arch
from repro.sim import Simulator
from repro.units import MIB


def make_quartz(write_model=WriteModel.PCOMMIT, nvm_write_latency_ns=700.0):
    sim = Simulator(seed=11)
    machine = Machine(sim, IVY_BRIDGE)
    osys = SimOS(machine)
    quartz = Quartz(
        osys,
        QuartzConfig(
            nvm_read_latency_ns=400.0,
            nvm_write_latency_ns=nvm_write_latency_ns,
            write_model=write_model,
        ),
        calibration=calibrate_arch(IVY_BRIDGE),
    )
    quartz.attach()
    return osys, quartz


def test_pcommit_with_nothing_pending_injects_no_delay():
    osys, quartz = make_quartz()
    out = {}

    def body(ctx):
        ctx.pmalloc(MIB, label="pm")
        before = ctx.now_ns
        yield Commit()
        out["barrier_ns"] = ctx.now_ns - before

    osys.create_thread(body)
    osys.run_to_completion()
    emulator = quartz.write_emulator
    assert emulator.commits_emulated == 1
    assert emulator.flushes_emulated == 0
    # Only the hardware drain cost, never an emulated-write delay.
    assert out["barrier_ns"] < quartz.config.nvm_write_latency_ns


def test_pcommit_delay_fully_hidden_by_program_progress():
    osys, quartz = make_quartz()
    out = {}

    def body(ctx):
        region = ctx.pmalloc(4 * MIB, label="pm")
        yield from ctx.pflush(region, lines=1)
        # Program work longer than the NVM write latency: the posted
        # deadline passes before the barrier, so nothing remains to
        # inject (Section 6's discounting).
        yield MemBatch(region, 2_000, PatternKind.SEQUENTIAL)
        before = ctx.now_ns
        yield Commit()
        out["barrier_ns"] = ctx.now_ns - before

    osys.create_thread(body)
    osys.run_to_completion()
    assert out["barrier_ns"] < quartz.config.nvm_write_latency_ns


def test_multi_line_flush_accounting():
    osys, quartz = make_quartz()

    def body(ctx):
        region = ctx.pmalloc(MIB, label="pm")
        yield from ctx.pflush(region, lines=5)
        yield from ctx.pflush(region, lines=3)
        yield Commit()

    osys.create_thread(body)
    osys.run_to_completion()
    # Per-line accounting: two pflush calls covering 8 lines total.
    assert quartz.write_emulator.flushes_emulated == 8
    assert quartz.write_emulator.commits_emulated == 1


def test_pending_counts_are_exposed():
    osys, quartz = make_quartz()
    observed = {}

    def body(ctx):
        region = ctx.pmalloc(MIB, label="pm")
        yield from ctx.pflush(region, lines=2)
        yield from ctx.pflush(region, lines=1)
        observed["pending"] = quartz.write_emulator.total_pending_flushes()
        yield Commit()
        observed["after"] = quartz.write_emulator.total_pending_flushes()

    osys.create_thread(body)
    osys.run_to_completion()
    # Two pflush *calls* posted two deadlines; the barrier drains both.
    assert observed["pending"] == 2
    assert observed["after"] == 0


def test_thread_exit_discards_pending_deadlines():
    osys, quartz = make_quartz()

    def leaker(ctx):
        region = ctx.pmalloc(MIB, label="pm-leak")
        yield from ctx.pflush(region, lines=4)
        # Exits without ever committing.

    def main(ctx):
        worker = yield SpawnThread(leaker, name="leaker")
        yield JoinThread(worker)
        # The dead thread's posted deadlines must be gone: a tid reused
        # by a later thread would otherwise inherit them and stall its
        # first pcommit on writes it never issued.
        assert quartz.write_emulator.total_pending_flushes() == 0
        yield Commit()

    osys.create_thread(main, name="main")
    osys.run_to_completion()
    assert quartz.write_emulator.total_pending_flushes() == 0


def test_detach_unregisters_the_exit_callback():
    osys, quartz = make_quartz()

    def body(ctx):
        region = ctx.pmalloc(MIB, label="pm")
        yield from ctx.pflush(region, lines=1)
        yield Commit()

    osys.create_thread(body)
    osys.run_to_completion()
    assert quartz.write_emulator.discard_thread in osys.hooks.thread_exit
    quartz.detach()
    assert quartz.write_emulator.discard_thread not in osys.hooks.thread_exit


def test_pflush_model_keeps_no_deadlines():
    osys, quartz = make_quartz(write_model=WriteModel.PFLUSH)

    def body(ctx):
        region = ctx.pmalloc(MIB, label="pm")
        yield from ctx.pflush(region, lines=3)
        assert quartz.write_emulator.total_pending_flushes() == 0

    osys.create_thread(body)
    osys.run_to_completion()
    # Stall-waited synchronously: per-line accounting, nothing posted.
    assert quartz.write_emulator.flushes_emulated == 3

"""Driver and device tests: block, console, NIC + stack poll, timer."""

import pytest

from repro.hw.devices.disk import Disk, DiskError
from repro.hw.devices.nic import Nic
from repro.hw.devices.serial import SerialPort
from repro.hw.devices.timer import Timer
from repro.nros.drivers.block import BLOCK_SIZE, BlockDriver, BlockRequest
from repro.nros.drivers.console import Console
from repro.nros.net.ip import ip_addr
from repro.nros.net.stack import NetStack


class TestDisk:
    def test_sector_roundtrip(self):
        disk = Disk(8)
        data = bytes(range(256)) * 16
        disk.write_sector(3, data)
        assert disk.read_sector(3) == data
        assert disk.reads == 1 and disk.writes == 1

    def test_bad_sector(self):
        disk = Disk(4)
        with pytest.raises(DiskError):
            disk.read_sector(4)
        with pytest.raises(DiskError):
            disk.write_sector(0, b"short")

    def test_snapshot_restore(self):
        disk = Disk(4)
        disk.write_sector(1, b"\xaa" * Disk.SECTOR_SIZE)
        image = disk.snapshot()
        disk.write_sector(1, b"\xbb" * Disk.SECTOR_SIZE)
        disk.restore(image)
        assert disk.read_sector(1) == b"\xaa" * Disk.SECTOR_SIZE

    def test_restore_size_mismatch(self):
        disk = Disk(4)
        with pytest.raises(DiskError):
            disk.restore(b"tiny")


class TestBlockDriver:
    def test_read_write_through_driver(self):
        disk = Disk(8)
        driver = BlockDriver(disk)
        driver.write(2, b"driver payload")
        assert driver.read(2)[:14] == b"driver payload"
        assert driver.requests_completed == 2
        assert driver.num_blocks == 8

    def test_zero(self):
        disk = Disk(4)
        driver = BlockDriver(disk)
        driver.write(1, b"\xff" * BLOCK_SIZE)
        driver.zero(1)
        assert driver.read(1) == bytes(BLOCK_SIZE)

    def test_bad_request(self):
        driver = BlockDriver(Disk(4))
        with pytest.raises(ValueError):
            driver.submit(BlockRequest("write", 0))  # no data
        with pytest.raises(ValueError):
            driver.submit(BlockRequest("fly", 0))


class TestTimerAndIrq:
    def test_tick_callbacks(self):
        timer = Timer()
        timer.tick(3)
        timer.tick()
        assert timer.ticks == 4
        with pytest.raises(ValueError):
            timer.tick(-1)
        assert timer.ticks == 4


class TestSerialAndConsole:
    def test_line_assembly(self):
        serial = SerialPort()
        serial.write("two\nlines\n")
        assert serial.lines == ["two", "lines"]

    def test_flush_partial(self):
        serial = SerialPort()
        serial.write("partial")
        assert serial.lines == []
        serial.flush()
        assert serial.lines == ["partial"]

    def test_bad_byte(self):
        with pytest.raises(ValueError):
            SerialPort().write_byte(300)

    def test_console_levels(self):
        console = Console(SerialPort(), min_level="warn")
        console.debug("quiet")
        console.error("loud")
        assert console.counts["debug"] == 1
        assert console.counts["error"] == 1
        assert console.serial.lines == ["<error> loud"]
        assert console.dmesg() == ["<debug> quiet", "<error> loud"]

    def test_console_ring_bounded(self):
        console = Console(SerialPort(), ring_size=4)
        for i in range(10):
            console.info(f"m{i}")
        assert len(console.dmesg()) == 4
        assert console.dmesg()[-1] == "<info> m9"

    def test_unknown_level(self):
        console = Console(SerialPort())
        with pytest.raises(ValueError):
            console.log("fatal", "boom")
        with pytest.raises(ValueError):
            Console(SerialPort(), min_level="nope")


class TestNicAndNetDriver:
    def test_ring_bounded_drops(self):
        nic = Nic(b"\x02" + bytes(5), ring_size=2)
        assert nic.deliver(b"a")
        assert nic.deliver(b"b")
        assert not nic.deliver(b"c")
        assert nic.stats.rx_dropped_ring_full == 1

    def test_netdriver_counts(self):
        """The kernel's net driver is ``NetStack.poll``: it drains the
        NIC's receive ring and counts the datagrams it dispatched."""
        nic = Nic(b"\x02" + bytes(5))
        stack = NetStack(ip_addr("10.0.0.1"), nic)
        sock = stack.udp_bind(99)
        stack.udp_send(100, ip_addr("10.0.0.1"), 99, b"loop")
        assert stack.poll() == 1
        assert list(sock.recv_queue)[0][2] == b"loop"
        assert stack.poll() == 0

    def test_bad_nic_params(self):
        with pytest.raises(ValueError):
            Nic(b"short")
        with pytest.raises(ValueError):
            Nic(b"\x02" + bytes(5), ring_size=0)

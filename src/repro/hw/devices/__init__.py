"""Simulated devices: NIC, disk, timer, serial console.  These are the
"device drivers" row of the paper's component list (Section 1) -- the
kernel's drivers in :mod:`repro.nros.drivers` sit on top of these device
models.  No device interrupts: the kernel polls each one itself."""

from repro.hw.devices.nic import Nic
from repro.hw.devices.disk import Disk
from repro.hw.devices.timer import Timer
from repro.hw.devices.serial import SerialPort

__all__ = ["Nic", "Disk", "Timer", "SerialPort"]

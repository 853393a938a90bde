"""Simulated hardware substrate.

The paper's hardware spec "describes the intended runtime environment of the
implementation ... includes a description of how the MMU translates memory
addresses by interpreting the page table bits in memory".  This package is
that description, made executable:

* :mod:`repro.hw.mem` — byte-addressable physical memory
* :mod:`repro.hw.mmu` — the x86-64 four-level page walker
* :mod:`repro.hw.tlb` — translation lookaside buffer with invalidation
* :mod:`repro.hw.devices` — NIC, disk, timer, serial console
"""

from repro.hw.mem import PhysicalMemory
from repro.hw.mmu import Mmu, TranslationFault, AccessType
from repro.hw.tlb import Tlb

__all__ = ["PhysicalMemory", "Mmu", "TranslationFault", "AccessType", "Tlb"]

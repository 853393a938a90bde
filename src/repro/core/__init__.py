"""The paper's primary contribution: the verified page table and the
client application contract.

Layout mirrors Figure 2 of the paper:

* :mod:`repro.core.spec.highlevel` — (2) the high-level specification: a
  mathematical map from virtual addresses to page-table entries, with
  map/unmap/resolve and memory read/write transitions.
* :mod:`repro.core.spec.hardware` — (1) the hardware specification: how the
  MMU interprets page-table bits in memory.
* :mod:`repro.core.pt` — (3) the executable page-table implementation.
* :mod:`repro.core.refine` — the refinement proofs connecting (3)+(1) to (2).
* :mod:`repro.core.contract` — the client application contract of Section 3
  (the `read` syscall spec and `view()` of the kernel's descriptor table).
"""

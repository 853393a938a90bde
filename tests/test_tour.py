"""`python -m repro` with no arguments: the tour runs and its proof slice
says which VC groups it discharged."""

from repro.__main__ import main


def test_tour_names_the_slice_it_runs(capsys):
    assert main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    index = next(i for i, line in enumerate(lines)
                 if line.startswith("Quick proof slice"))
    assert lines[index] == (
        "Quick proof slice (entry-lemmas, address-lemmas, marshal-lemmas, "
        "nr-linearizability, contract: 113 VCs):")
    assert lines[index + 1].startswith(
        "  113/113 verification conditions proved in ")

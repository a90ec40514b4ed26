"""The digit ledger (mutation/ledger.py) is deterministic."""

import importlib.util
import pathlib

LEDGER = pathlib.Path(__file__).resolve().parent.parent / "mutation" / "ledger.py"


def test_ledger_prints_the_same_text_twice():
    spec = importlib.util.spec_from_file_location("ledger", LEDGER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    first = module.ledger(20)
    assert module.ledger(20) == first
    # 20 trials of each of the four ensembles, 4 README pairs, 12 tall
    # pairs and 8 defect pairs, each source id once
    sources = [line.split()[0] for line in first.splitlines()]
    assert len(sources) == len(set(sources)) == 4 * 20 + 4 + 12 + 8
